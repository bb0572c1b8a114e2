"""The package's own work builds no reference cycles.

A cycle (a graph pointing at itself, a recursive closure) keeps everything it
reaches alive until the cyclic collector runs; without cycles, reference
counting frees each object as soon as it is dropped.
"""

import gc
import random

from gshe.checks import suite_adjoint, suite_identities
from gshe.jets import (Jet, Valuation, curvature_counterterm,
                       gradient_counterterm, levi_civita, random_gamma,
                       random_vector_field, vector_jet)
from gshe.morphisms import tau_c, tau_star
from gshe.symbols import GAMMA, enumerate_basis, full_basis


def test_no_cyclic_garbage():
    rng = random.Random(7)
    gc.disable()
    try:
        gc.collect()
        enumerate_basis(4)
        suite_adjoint(seed=3, cases=20)
        suite_identities(seed=3, cases=20)
        val = Valuation(random_gamma(rng, 2, 3),
                        [random_vector_field(rng, 2, 3) for _ in range(2)])
        # the subtree memo, cold and then warm, holds only plain values
        paired = next(s for s in full_basis()
                      if any(t.name == GAMMA.name for t in s.types))
        for _ in range(2):
            for a in (tau_star(), tau_c(), paired):
                val(a)
        # the memo and the generator cache hold entries at two result orders
        assert len({val(a).order for a in (tau_star(), tau_c())}) == 2
        assert len({order for _, order, _ in val._subtree_ids}) >= 2
        assert len({order for _, _, order in val._generators}) >= 2
        del val  # a cycle through the Valuation is garbage only once dropped
        # the oracles: covariant derivatives and contractions
        gamma = random_gamma(rng, 2, 3)
        sigmas = [random_vector_field(rng, 2, 3) for _ in range(2)]
        curvature_counterterm(gamma, sigmas)
        gradient_counterterm(gamma, sigmas)
        frame = [s + vector_jet(2, 3, [Jet.constant(2, 3, 5 * (a == b))
                                       for b in range(2)])
                 for a, s in enumerate(sigmas)]
        levi_civita(frame)
        assert gc.collect() == 0
    finally:
        gc.enable()
