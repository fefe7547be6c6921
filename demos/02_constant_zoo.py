"""The constant zoo on the smallest interesting pair, then on a random one.

For one unit mass at 1/4 against one at 3/4 everything is computable by
hand: the operator norm and both testing constants equal 2 (the kernel peaks
at the reciprocal distance), the Poisson-product search settles at 10.24 on
the interval of length 1/4 centered between the atoms, and the combined
constant is sqrt(10.24) + 2 = 5.2.
"""

from h2w import AtomicMeasure, auto_grid, compute_report
from h2w.measure import random_ensemble

sigma = AtomicMeasure.from_triples([(1, 2, 1.0)])
w = AtomicMeasure.from_triples([(3, 2, 1.0)])

rep = compute_report(sigma, w, auto_grid(sigma, w, 8))
print("micro pair:")
print(f"  norm            N = {rep.norm_N}")
print(f"  testing         T = {rep.testing_fwd} / {rep.testing_bwd}")
print(f"  Poisson product A2 = {rep.a2}")
print(f"  combined        H = {rep.h_const}")
print(f"  N / H             = {rep.n_over_h:.6f}")

print("\nrandom 24-atom pair:")
sigma, w = random_ensemble(seed=3, count=1, max_atoms=24, depth=12)[0]
rep = compute_report(sigma, w, seed=1)
print(f"  atoms: {sigma.n_atoms} + {w.n_atoms}")
print(f"  N = {rep.norm_N:.4f},  T = {max(rep.testing_fwd, rep.testing_bwd):.4f}, "
      f"A2 = {rep.a2:.4f}")
print(f"  H = {rep.h_const:.4f},  N/H = {rep.n_over_h:.4f}")
print(f"  energy constants: {rep.energy_E:.4f} (forward), {rep.energy_E_dual:.4f} (dual)")
print(f"  ratios: {rep.paper_ratios()}")
print(f"  truncation scan size: {rep.meta['truncation_scan_size']}")

# The testing constants are always admissible inputs to the norm problem, so
# T <= N pair by pair; the sweep subcommand tabulates this over ensembles:
#   h2w sweep --count 200 --max-atoms 32 --depth 12 -o sweep.csv
