"""Covariant derivative, curvature, the diffeomorphism and pair-merging maps.

``nabla`` and ``curvature`` are built from the grafting product and the
Christoffel generator.  The distinguished vectors are plain calls of them on
four labelled noises ``A1, A2, B1, B2``, after which ``pair_ab`` forgets the
labels and pairs the a-noises and the b-noises: the curvature vectors
``tau_star`` and ``tau_c``, and the 15 ``covariant_symbols`` that span S_geo.
``phi_geo`` is the infinitesimal action of a diffeomorphism generator ``h``
on symbols (an infinitesimal morphism fixed by its values on the
generators); its corrected version ``phi_hat_geo`` cuts out the geometric
counterterms as its kernel.  ``m_ito`` merges noise pairs into a two-output
generator, ``M_ito`` averages star edges over each pair, and
``p_ito = p_acyc . M_ito`` is the self-adjoint projection whose fixed space
within the symbol span is the Ito-isometric subspace.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .algebra import (LinComb, generator, generator_graph, graft,
                      product_graph, substitute_vertex, trace_graph)
from .graphs import DegreeError, PairingError, XGraph
from .symbols import DIFF, GAMMA, GPAIR, NOISE, forget_labels, labeled_noise


def nabla(a: LinComb, b: LinComb) -> LinComb:
    """Symbolic covariant derivative: a grafted on b plus the Christoffel term."""
    for x in (a, b):
        if x and x.degree() != (1, 0):
            raise DegreeError(f"nabla needs degree (1,0), got {x.degree()}")
    gamma = generator_graph(GAMMA)
    christoffel = LinComb(
        (trace_graph(trace_graph(product_graph(product_graph(gamma, g), h))),
         c * d / 2)
        for g, c in a.terms.items() for h, d in b.terms.items())
    return graft(a, b) + christoffel


def lie_bracket(a: LinComb, b: LinComb) -> LinComb:
    return graft(a, b) - graft(b, a)


def curvature(x: LinComb, y: LinComb, z: LinComb) -> LinComb:
    return (nabla(x, nabla(y, z)) - nabla(y, nabla(x, z))
            - nabla(nabla(x, y) - nabla(y, x), z))


# -- covariant words -----------------------------------------------------------

# Four distinguishable noises: words stay labelled until ``pair_ab``.
A1, A2, B1, B2 = (generator(labeled_noise(i)) for i in range(1, 5))


def pair_ab(a: LinComb) -> LinComb:
    """Forget the labels of a word in A1, A2, B1, B2, pairing a's and b's."""
    return forget_labels(a, pair_by={"Xi1": "a", "Xi2": "a",
                                     "Xi3": "b", "Xi4": "b"})


@lru_cache(maxsize=None)
def tau_star() -> LinComb:
    return pair_ab(curvature(A1, nabla(B1, A2), B2)
                   - 2 * curvature(A1, nabla(A2, B1), B2))


@lru_cache(maxsize=None)
def tau_c() -> LinComb:
    return pair_ab(nabla(A1, curvature(B1, A2, B2))
                   - curvature(nabla(A1, B1), A2, B2)
                   - curvature(B1, nabla(A1, A2), B2)
                   - curvature(B1, A2, nabla(A1, B2)))


@lru_cache(maxsize=None)
def covariant_symbols():
    """The 15 covariant-derivative vectors in the paired-symbol basis.

    The 14 triple covariant derivatives that span V, then the single
    derivative ``nabla(A1, A2)``.
    """
    N = nabla
    return tuple(pair_ab(w) for w in (
        N(A1, N(B1, N(B2, A2))),
        N(B1, N(B2, N(A1, A2))),
        N(B1, N(N(B2, A1), A2)),
        N(N(B1, A1), N(B2, A2)),
        N(N(A1, B1), N(B2, A2)),
        N(N(B1, B2), N(A1, A2)),
        N(N(B1, N(B2, A1)), A2),
        N(N(B1, N(A1, A2)), B2),
        N(N(N(B1, A1), A2), B2),
        N(N(N(B1, A1), B2), A2),
        N(A1, N(N(B1, A2), B2)),
        N(N(A1, N(B1, A2)), B2),
        N(N(N(A1, A2), B1), B2),
        N(B1, N(N(A1, A2), B2)),
        N(A1, A2),
    ))


# -- infinitesimal diffeomorphism action --------------------------------------

@lru_cache(maxsize=None)
def _image_noise() -> LinComb:
    """[Xi, h] = Xi grafted on h minus h grafted on Xi."""
    return lie_bracket(generator(NOISE), generator(DIFF))


@lru_cache(maxsize=None)
def _image_gamma() -> LinComb:
    """Transformation of the Christoffel generator under the h-action."""
    g1 = XGraph(1, 2, (GAMMA, DIFF),
                {(0, 1): (1, 0), (1, 1): ("u", 1),
                 ("l", 1): (0, 1), ("l", 2): (0, 2)})
    g2 = XGraph(1, 2, (GAMMA, DIFF),
                {(1, 1): (0, 0), (0, 1): ("u", 1),
                 ("l", 1): (0, 1), ("l", 2): (0, 2)})
    g3 = XGraph(1, 2, (GAMMA, DIFF),
                {(1, 1): (0, 2), (0, 1): ("u", 1),
                 ("l", 1): (1, 0), ("l", 2): (0, 1)})
    g4 = XGraph(1, 2, (GAMMA, DIFF),
                {(1, 1): (0, 2), (0, 1): ("u", 1),
                 ("l", 1): (0, 1), ("l", 2): (1, 0)})
    g5 = XGraph(1, 2, (DIFF,),
                {(0, 1): ("u", 1), ("l", 1): (0, 0), ("l", 2): (0, 0)})
    return (LinComb.of(g1) - LinComb.of(g2) - LinComb.of(g3) - LinComb.of(g4)
            - 2 * LinComb.of(g5))


def _noise_carrier(term: XGraph) -> int:
    return next(v for v, t in enumerate(term.types) if t.name == NOISE.name)


def phi_geo(a: LinComb) -> LinComb:
    """Infinitesimal morphism with phi(Xi) = [Xi,h] and the Gamma image above."""
    def per_graph(g):
        for v, t in enumerate(g.types):
            if t.name == NOISE.name:
                yield from substitute_vertex(g, v, _image_noise(),
                                             carrier=_noise_carrier)
            elif t.name == GAMMA.name:
                yield from substitute_vertex(g, v, _image_gamma())
            elif t.name == DIFF.name:
                raise ValueError("phi_geo domain excludes h-decorated graphs")
            else:
                raise ValueError(f"phi_geo undefined on generator {t.name!r}")

    return a.map_terms(per_graph)


def phi_hat_geo(a: LinComb) -> LinComb:
    """phi_geo minus the bracket with the diffeomorphism generator."""
    if not a:
        return a
    if a.degree() != (1, 0):
        raise DegreeError("phi_hat_geo acts on degree-(1,0) elements")
    return phi_geo(a) - lie_bracket(a, generator(DIFF))


# -- pair merging and the Ito projection --------------------------------------

def _noise_pairs(g: XGraph):
    noises = {v for v, t in enumerate(g.types) if t.name == NOISE.name}
    covered = {v for p in g.pairing for v in p if v in noises}
    if covered != noises:
        raise PairingError("every noise vertex must belong to a pair")
    return [tuple(sorted(p)) for p in g.pairing
            if all(v in noises for v in p)]


def m_ito(a: LinComb) -> LinComb:
    """Merge each noise pair into one two-output generator.

    A pair whose members receive k star edges in total contributes a factor
    2^-k; the output is a combination of graphs over {g, Gamma, h}.
    """
    def per_graph(g):
        pairs = sorted(_noise_pairs(g))
        keep = [v for v in range(g.n_vertices)
                if all(v not in p for p in pairs)]
        new_index = {v: i for i, v in enumerate(keep)}
        types = [g.types[v] for v in keep] + [GPAIR] * len(pairs)
        out_map = {}
        star_map = {}
        coeff = Fraction(1)
        for i, (v, w) in enumerate(pairs):
            gp = len(keep) + i
            out_map[(v, 1)] = (gp, 1)
            out_map[(w, 1)] = (gp, 2)
            star_map[v] = star_map[w] = (gp, 0)
            coeff /= 2 ** (g.star_degree(v) + g.star_degree(w))

        wiring = {}
        for src, dst in g.wiring.items():
            ns = src if src[0] == "l" else out_map.get(src) or (new_index[src[0]], src[1])
            if dst[0] == "u":
                nd = dst
            elif dst[1] == 0 and dst[0] in star_map:
                nd = star_map[dst[0]]
            else:
                nd = (new_index[dst[0]], dst[1])
            wiring[ns] = nd
        pairing = [frozenset(new_index[v] for v in p) for p in g.pairing
                   if tuple(sorted(p)) not in pairs]
        return [(XGraph._trusted(g.u, g.l, types, wiring, pairing), coeff)]

    return a.map_terms(per_graph)


def M_ito(a: LinComb) -> LinComb:
    """Average every star edge landing on a noise pair over both members."""
    def per_graph(g):
        pairs = _noise_pairs(g)
        mate = {}
        for v, w in pairs:
            mate[v], mate[w] = w, v
        star_edges = [s for s, d in g.wiring.items()
                      if d[0] != "u" and d[1] == 0 and d[0] in mate]
        weight = Fraction(1, 2 ** len(star_edges))
        for flips in itertools.product((False, True), repeat=len(star_edges)):
            wiring = dict(g.wiring)
            for s, flip in zip(star_edges, flips):
                if flip:
                    wiring[s] = (mate[wiring[s][0]], 0)
            yield XGraph._trusted(g.u, g.l, g.types, wiring, g.pairing), weight

    return a.map_terms(per_graph)


def p_acyc(a: LinComb) -> LinComb:
    """Drop terms whose pair-merged directed graph contains a cycle."""
    return LinComb((g, c) for g, c in a.terms.items()
                   if not g.has_directed_cycle(merge_pairs=True))


def p_ito(a: LinComb) -> LinComb:
    return p_acyc(M_ito(a))


@lru_cache(maxsize=None)
def _pair_image() -> LinComb:
    """The paired two-noise element replacing a merged generator."""
    g = XGraph(2, 0, (NOISE, NOISE),
               {(0, 1): ("u", 1), (1, 1): ("u", 2)}, [(0, 1)])
    return LinComb.of(g)


def phi_ito(a: LinComb) -> LinComb:
    """Expand every merged two-output generator back into a noise pair.

    Star edges on a merged vertex distribute over both members, so this is a
    right inverse of ``m_ito`` up to the pair-averaging (``M_ito = phi_ito
    after m_ito``).
    """
    def per_graph(g):
        v = next((v for v, t in enumerate(g.types) if t.name == GPAIR.name),
                 None)
        if v is None:
            return [(g, 1)]
        return [(k, c * d) for h, c in substitute_vertex(g, v, _pair_image())
                for k, d in per_graph(h)]

    return a.map_terms(per_graph)
