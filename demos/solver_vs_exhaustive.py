"""Block-coordinate ascent against the exhaustive oracle on a toy instance.

The exhaustive search is only tractable when the surface is tiny; that is
exactly what makes it a useful yardstick for the relaxation.

Run:  python3 demos/solver_vs_exhaustive.py
"""

import numpy as np

from risalloc import (BcdOptions, ChannelSet, bcd_optimize, binarize,
                      brute_force, enumeration_count, mrt_beamformers,
                      sum_utility)

rng = np.random.default_rng(22)
K, N, SIDE = 2, 2, 3
L2 = SIDE * SIDE
NOISE = 0.05
ALPHA = 0.5


def draw(shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


ch = ChannelSet(h_direct=draw((K, N)), g_ris=draw((K, L2)), h_rb=draw((L2, N)),
                los_flags=np.ones((K, 2), bool), clamped=np.zeros((K, 2), bool),
                bs_ris_clamped=False)
w = mrt_beamformers(ch, 1.0).w

print(f"instance: {K} users, {N} antennas, {SIDE}x{SIDE} surface, alpha={ALPHA}")
print(f"exhaustive search size at 8 phase levels: "
      f"{enumeration_count(K, SIDE, L2, 8):,} configurations")
print()

theta, xi, trace = bcd_optimize(ch, w, ALPHA, NOISE,
                                BcdOptions(max_outer_iters=60))
objs = trace.objectives
print("ascent trace (every 10th outer iteration):")
for i in range(0, len(objs), 10):
    print(f"  {i:2d}: {objs[i]:.6f}")
if (len(objs) - 1) % 10:
    print(f"  {len(objs) - 1:2d}: {objs[-1]:.6f}")

hard = binarize(xi.xi)
relaxed = sum_utility(ch, theta, xi, w, ALPHA, NOISE)
rounded = sum_utility(ch, theta, hard, w, ALPHA, NOISE)
print(f"\nrelaxed utility  {relaxed:.6f}")
print(f"rounded utility  {rounded:.6f}")
print("rounded column assignment (row = user):")
print(hard.xi.astype(int))

theta_b, alloc_b, best = brute_force(ch, w, ALPHA, NOISE, nu=8)
print(f"\nexhaustive optimum over the discrete grid: {best:.6f}")
print(f"rounded ascent sits at {100.0 * rounded / best:.1f}% of it")
print("(above 100% is possible: the ascent tunes phases continuously,")
print(" the oracle is exact only over its 8-level phase grid)")
print("exhaustive column assignment:")
print(alloc_b.xi.astype(int))
