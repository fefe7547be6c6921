"""The discrete half-plane weight and the two Poisson testing conditions.

Attaches one half-plane atom to each maximal good interval below its
stopping parent, then evaluates both testing inequalities on every shallow
charged interval in one batched call, and the comparability of the
stationary quantity with the genuine half-plane extension.
"""

import numpy as np

from h2w import (
    WeightedFunction,
    auto_grid,
    build_stopping_data,
    good_projection,
    mu_measure,
    pair_constants,
    poisson_extension,
    poisson_stationary,
    poisson_testing,
)
from h2w.poisson import default_j_families
from h2w.haar import occupied_nodes
from h2w.grid import GridInterval
from h2w.measure import random_ensemble
from h2w.params import SUITE_BELOW_GAP, SUITE_EPS, SUITE_R

sigma, w = random_ensemble(seed=13, count=1, max_atoms=24, depth=12, family="clusters")[0]
grid = auto_grid(sigma, w, 12)

# stationary quantity vs half-plane extension at matching points: the two
# kernels squeeze each other within a factor of two
gi = grid.interval(3, 2)
p = poisson_stationary(sigma, gi)
pp = poisson_extension(sigma, gi.center_f, gi.length_f)
print(f"P(sigma, {gi}) = {p:.6f}, extension at (center, |I|) = {pp:.6f}, ratio {p / pp:.4f}")

rng = np.random.default_rng(1)
f = good_projection(WeightedFunction(sigma, rng.standard_normal(sigma.n_atoms)), grid, SUITE_EPS, SUITE_R)
rec = pair_constants(sigma, w, grid)
a2, h_const, c0 = rec.a2, rec.h_const, rec.c0
stopping = build_stopping_data(f, grid.root_interval, w, h_const, c0)

j_fams = default_j_families(stopping.members, w, grid, SUITE_EPS, SUITE_R, SUITE_BELOW_GAP)
hp = mu_measure(stopping.members, w, grid, j_fams)
print(f"\nhalf-plane weight: {hp.n_atoms} atoms")
for x, t, m, (fkey, jkey) in zip(hp.xs, hp.ts, hp.masses, hp.tags):
    print(f"  at ({x:.6f}, {t:.6f})  mass {m:.6e}  from F={fkey}, J*={jkey}")

print("\ntesting rows (interval, forward ratio, dual ratio):")
intervals = [GridInterval(grid, n.level, n.index) for n in occupied_nodes(sigma, grid) if n.level <= 6]
shown = 0
for gi, res in zip(intervals, poisson_testing(intervals, sigma, hp, h_const, a2)):
    if shown < 8 and res.forward_rhs > 0 and res.forward_lhs > 0:
        print(f"  L{gi.level}.{gi.index}: forward {res.forward_ratio:.3e}, dual {res.dual_ratio:.3e}")
        shown += 1
