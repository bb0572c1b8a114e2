"""Seeded random well-formed graphs for property tests and check suites."""

from __future__ import annotations

import random

from .graphs import XGraph
from .symbols import NOISE

TRIES = 400  # draws before a sampler gives up on its parameters and raises


def random_graph(rng: random.Random, gens, max_vertices=4, max_low=2,
                 pair_noises=False, degree=None):
    """A uniform-ish random valid graph over the given generator list.

    Its degree is ``degree=(u, l)``, or drawn with l <= ``max_low``.  Retries
    until the slot balance admits a wiring, and with ``pair_noises`` until
    the plain noise vertices can be paired.  Not a uniform sampler; good
    enough to exercise the axioms.
    """
    for _ in range(TRIES):
        n = rng.randint(1, max_vertices)
        types = [rng.choice(gens) for _ in range(n)]
        total_out = sum(t.out_arity for t in types)
        natives = [(v, j) for v, t in enumerate(types)
                   for j in range(1, t.in_arity + 1)]
        if degree is None:
            l = rng.randint(0, max_low)
            u = rng.randint(0, total_out)
        else:
            u, l = degree
        if u > total_out or total_out - u + l < len(natives):
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
            pairing = [tuple(noise_vs[i:i + 2]) for i in range(0, len(noise_vs), 2)]
        return XGraph(u, l, types, wiring, pairing)
    raise RuntimeError("could not sample a valid graph with these parameters")


def random_lincomb(rng, gens, n_terms=2, **kw):
    """Random combination of ``n_terms`` terms, each drawn by ``random_graph``
    with ``kw`` (so ``degree`` fixes them all) at a coefficient in -3..3;
    raises if it falls short."""
    from .algebra import LinComb

    out, draws = LinComb(), 0
    while len(out) < n_terms:
        if draws == TRIES:
            raise RuntimeError(f"could not draw {n_terms} distinct terms")
        draws += 1
        g = random_graph(rng, gens, **kw)
        c = rng.randint(-3, 3)
        if c:
            out = out + LinComb.of(g, c)
    return out


def random_permutation(rng, n):
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return tuple(p)
