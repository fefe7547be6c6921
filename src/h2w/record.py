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
from dataclasses import fields

from .constants import pair_constants
from .grid import auto_grid
from .measure import random_ensemble
from .regression import ORACLE_CONFIG
from .verify import SuiteConfig, observed_maxima


def sweep_band(seeds=(20251, 555, 999), count=200, max_atoms=32, depth=12):
    hi, lo = 0.0, math.inf
    for seed in seeds:
        for sigma, w in random_ensemble(seed, count, max_atoms, depth, family="uniform"):
            rec = pair_constants(sigma, w, auto_grid(sigma, w, depth))
            if rec.norm_N == 0.0:
                continue
            hi = max(hi, rec.norm_N / rec.h_const)
            lo = min(lo, rec.norm_N / rec.h_const)
    return lo, hi


def main() -> None:
    cfg = SuiteConfig(
        **{f.name: ORACLE_CONFIG[f.name] for f in fields(SuiteConfig) if f.name in ORACLE_CONFIG}
    )
    observed = {k: round(float(v), 9) for k, v in observed_maxima(cfg).items()}
    lo, hi = sweep_band()
    observed["sweep_n_over_h_min"] = round(lo, 9)
    observed["sweep_n_over_h_max"] = round(hi, 9)
    pprint.pprint(dict(sorted(observed.items())))


if __name__ == "__main__":
    main()
