#!/usr/bin/env python3
"""Zero-noise refinement table for the sphere-valued loop evolution.

Halving the grid spacing and the time step together at a fixed horizon
shows the off-sphere distance scaling away under refinement.  Noisy
snapshots come from ``gshe sim --target sphere``.
"""

import math

from gshe.renorm import sphere_simulate


def main():
    print("refinement (zero noise, fixed horizon):")
    T = 0.05
    n, dt = 32, 0.05 * (2 * math.pi / 32) ** 2
    prev = None
    for _ in range(3):
        out = sphere_simulate(n_grid=n, dt=dt, n_steps=int(T / dt),
                              noise_scale=0.0)
        ratio = "" if prev is None else f"  ratio {prev / out['max_dist']:.2f}"
        print(f"  N={n:4d} dt={dt:.2e}: max dist {out['max_dist']:.3e}{ratio}")
        prev = out["max_dist"]
        n, dt = 2 * n, dt / 2


if __name__ == "__main__":
    main()
