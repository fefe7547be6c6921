"""Recompute the recorded regression constants.

Run ``python -m h2w.record`` and paste the printed dict into
``regression.RECORDED`` after reviewing every moved value.  The suite keys
come from one pass at the oracle seed (the committed values in
``regression.RECORDED`` are maxima over six calibration seeds; vary ``seed``
to reproduce the spread).  The sweep-family band is measured over its three
calibration seeds directly.
"""

from __future__ import annotations

import math
import pprint

from .constants import a2_constant, kernel_scan, norm_constant, testing_pair
from .measure import random_ensemble
from .regression import ORACLE_CONFIG
from .verify import SuiteConfig, observed_maxima


def sweep_band(seeds=(20251, 555, 999), count=200, max_atoms=32, depth=12):
    hi, lo = 0.0, math.inf
    for seed in seeds:
        for sigma, w in random_ensemble(seed, count, max_atoms, depth, family="uniform"):
            scan = kernel_scan(sigma, w)
            n = norm_constant(sigma, w, scan=scan)
            if n == 0.0:
                continue
            h = math.sqrt(a2_constant(sigma, w)) + max(testing_pair(sigma, w, scan=scan))
            hi = max(hi, n / h)
            lo = min(lo, n / h)
    return lo, hi


def main() -> None:
    cfg = SuiteConfig(
        seed=ORACLE_CONFIG["seed"],
        count=ORACLE_CONFIG["count"],
        max_atoms=ORACLE_CONFIG["max_atoms"],
        depth=ORACLE_CONFIG["depth"],
        eps=ORACLE_CONFIG["eps"],
        r=ORACLE_CONFIG["r"],
        below_gap=ORACLE_CONFIG["below_gap"],
        refinement=ORACLE_CONFIG["refinement"],
        family=ORACLE_CONFIG["family"],
    )
    observed = {k: round(float(v), 9) for k, v in observed_maxima(cfg).items()}
    lo, hi = sweep_band()
    observed["sweep_n_over_h_min"] = round(lo, 9)
    observed["sweep_n_over_h_max"] = round(hi, 9)
    pprint.pprint(dict(sorted(observed.items())))


if __name__ == "__main__":
    main()
