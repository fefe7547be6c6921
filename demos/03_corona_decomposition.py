"""Stopping data, coronas, and the above/below bilinear forms.

Constructs stopping data for a rough test function, prints the tree with its
control values and trigger tags, verifies the Carleson packing bound, and
splits the above-diagonal form into corona pieces plus a cross-corona
residual controlled by the combined constant.
"""

import numpy as np

from h2w import (
    WeightedFunction,
    auto_grid,
    b_above,
    build_stopping_data,
    carleson_check,
    corona_split,
    good_projection,
    pair_constants,
    quasi_norm,
    reduction_residual,
)
from h2w.measure import random_ensemble
from h2w.params import SUITE_BELOW_GAP, SUITE_EPS, SUITE_R

sigma, w = random_ensemble(seed=5, count=1, max_atoms=24, depth=12, family="lacunary")[0]
grid = auto_grid(sigma, w, 12)

rng = np.random.default_rng(7)
f = good_projection(WeightedFunction(sigma, rng.standard_normal(sigma.n_atoms)), grid, SUITE_EPS, SUITE_R)
g = good_projection(WeightedFunction(w, rng.standard_normal(w.n_atoms)), grid, SUITE_EPS, SUITE_R)

rec = pair_constants(sigma, w, grid)
h_const, c0 = rec.h_const, rec.c0
print(f"combined constant H = {h_const:.3f}, calibrated threshold scale c0 = {c0}")

stopping = build_stopping_data(f, grid.root_interval, w, h_const, c0)
print(f"\nstopping family ({len(stopping.members)} members):")
for F in stopping.members:
    pad = "  " * F.level
    print(f"  {pad}{F}  alpha={stopping.alpha[F.key]:.4f}  [{stopping.reason[F.key]}]")

print(f"\nCarleson packing ratio: {carleson_check(stopping, sigma):.4f}  (at most 2)")
print(f"quasi-norm / ||f||:     {quasi_norm(stopping, sigma) / f.norm():.4f}")

total = b_above(f, g, grid, SUITE_BELOW_GAP)
split_value, residual = corona_split(f, g, stopping, SUITE_BELOW_GAP)
print(f"\nabove form:   {total:+.6f}")
print(f"corona split: {split_value:+.6f}  cross-corona residual: {residual:+.6f}")
if f.norm() and g.norm():
    print(f"residual / (H ||f|| ||g||): {abs(residual) / (h_const * f.norm() * g.norm()):.3e}")

rr = reduction_residual(f, g, grid, h_const, SUITE_BELOW_GAP)
print(f"\nraw pairing {rr.inner_product:+.4f} = above {rr.b_above:+.4f} "
      f"+ below {rr.b_below:+.4f} + error; normalized error {rr.residual_ratio:.4f}")
