"""Default parameters shared across modules.

The *strict* gap r=9 follows the classical convention where the goodness
gap is taken large; with eps=1/4 the nonvacuously-good set is empty there
(an interval of positive width cannot sit a quarter-length away from both
endpoints of a half-cell exactly 2^(r-1) levels up), so every interval
deeper than r-2 levels is bad.  It survives only as the default gap of the
bilinear forms.  The *feasible* set (eps=0.49, r=6) is the smallest gap at
which good intervals exist at every depth; ensemble suites, the CLI and the
report run there.
"""

# Strict gap in the below-the-diagonal bilinear forms.
DEFAULT_R = 9
DEFAULT_BELOW_GAP = DEFAULT_R

# Feasible configuration used by ensemble suites and recorded regressions.
SUITE_EPS = 0.49
SUITE_R = 6
SUITE_BELOW_GAP = 6
SUITE_DEPTH = 12

# Energy-stopping threshold scale before calibration.
DEFAULT_C0 = 1.0

# Truncation-scan refinement: number of geometric points inserted between
# consecutive critical distances for the tapered kernels, and the rank
# subsample width for the hard cutoffs.
DEFAULT_REFINEMENT = 8

# Interval-ladder refinement for the Poisson product search.
DEFAULT_A2_REFINEMENT = 6
