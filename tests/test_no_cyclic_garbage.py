"""The package's own work builds no reference cycles.

A cycle (a graph pointing at itself, a recursive closure) keeps everything it
reaches alive until the cyclic collector runs; without cycles, reference
counting frees each object as soon as it is dropped.
"""

import gc
import random

from gshe.checks import suite_adjoint, suite_identities
from gshe.jets import Valuation, random_gamma, random_vector_field
from gshe.morphisms import tau_star
from gshe.symbols import enumerate_basis


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
        val(tau_star())
        assert gc.collect() == 0
    finally:
        gc.enable()
