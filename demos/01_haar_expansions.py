"""Walk through the exact-measure layer and the weighted Haar calculus.

Builds a small atomic pair on the dyadic lattice, expands a random function
in the weighted Haar basis, and checks Parseval, reconstruction, and the
telescoping of conditional averages by hand.
"""

import numpy as np

from h2w import (
    AtomicMeasure,
    Interval,
    WeightedFunction,
    dyadic,
    build_grid,
    expand,
    expectation,
    haar_function,
    martingale_difference,
    random_ensemble,
    reconstruct,
)

# --- exact positions -------------------------------------------------------
# Positions are read as dyadic rationals (numerator, scale) and stored as
# the doubles they equal; masses are plain doubles.  The two-atom measure
# below charges 1/4 and 3/4 with unit mass.  Grid roots and shifts are
# exact dyadic rationals, which need not be doubles.
mu = AtomicMeasure.from_triples([(1, 2, 1.0), (3, 2, 1.0)])
root = Interval(dyadic(0), dyadic(1))
print(f"measure: {mu}, total mass {mu.total_mass}")
print(f"mass on [0, 1/2): {mu.mass_on(Interval(dyadic(0), dyadic(1, 1)))}")

# --- the Haar function on the root -----------------------------------------
grid1 = build_grid(root, 1, dyadic(0), mu, AtomicMeasure.empty())
h = haar_function(grid1.root_interval, mu)
print(f"root Haar values: {h.values}  (norm {h.norm():.15f})")

# --- expansion of a random function over a random pair ----------------------
sigma, w = random_ensemble(seed=45, count=1, max_atoms=12, depth=10)[0]
grid = build_grid(root, 10, dyadic(0), sigma, w)
rng = np.random.default_rng(0)
f = WeightedFunction(sigma, rng.standard_normal(sigma.n_atoms))

hc = expand(f, grid)
print(f"\n{sigma.n_atoms} atoms -> {len(hc.coeffs)} Haar coefficients, "
      f"root mean {hc.root_mean:+.6f}")
print(f"Parseval:      {hc.norm_sq():.12f} vs {f.norm_sq():.12f}")
rec = reconstruct(hc)
print(f"reconstruction error: {np.max(np.abs(rec.values - f.values)):.2e}")

# --- telescoping ------------------------------------------------------------
# The average over any charged cell equals the root mean plus the averages of
# the martingale differences of every strict ancestor.
cell = next(
    grid.interval(6, k)
    for k in range(1 << 6)
    if sigma.mass_on(grid.interval(6, k)) > 0
)
total = hc.root_mean
for level in range(cell.level):
    total += expectation(martingale_difference(f, cell.ancestor(level)), cell)
print(f"telescoping at {cell}: {expectation(f, cell):+.12f} vs {total:+.12f}")
